import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _helpers import (apply_channel_dense, conjugated_channel, random_state,
                      random_symplectic, raw_channel_specs, sample_form,
                      symmetric_eigenvalues_mp)
from bosonic_telesim import (BosonicTelesimError, CanonicalClass, CanonicalForm,
                             ClassificationAmbiguousError, GaussianChannel,
                             ValidationError, apply_channel, canonical_channel,
                             canonical_matrices, channel_from_dict, channel_rank,
                             channel_to_dict, classify, compose, form_from_fields,
                             thermal_state, tmsv_state, validate_channel)
from bosonic_telesim.channels import _numeric_rank
from bosonic_telesim.convergence import decide_uniform

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


class TestCheckOnce:
    """A channel is immutable, so a passed default-tolerance physicality
    check is remembered on it; a failed one and a float ``tol`` are not."""

    @pytest.fixture
    def physicality_checks(self, monkeypatch):
        from bosonic_telesim import channels

        calls, real = [], channels._checked

        def counted(m, tol, w=None, what="covariance matrix"):
            if what == "channel noise matrix":
                calls.append(tol)
            return real(m, tol, w, what)

        monkeypatch.setattr(channels, "_checked", counted)
        return calls

    def test_failed_check_raises_the_same_error_on_every_use(self):
        ch = GaussianChannel(2.0 * I2, 0.5 * I2)  # det N = 0.25 < (det T - 1)^2 = 9
        messages = set()
        for _ in range(3):
            assert not validate_channel(ch)
            for use in (classify, channel_rank, lambda c: apply_channel(c, thermal_state(1.0)),
                        lambda c: compose(c, GaussianChannel.identity()),
                        lambda c: compose(GaussianChannel.identity(), c)):
                with pytest.raises(ValidationError) as info:
                    use(ch)
                messages.add(str(info.value))
        assert len(messages) == 1 and "unphysical" in messages.pop()

    def test_float_tol_always_checks_again(self):
        # min eigenvalue of N + i 0 Omega is -5e-10: inside the default slack
        # 1e-9, outside 1e-12 and 0.0, whatever was remembered in between
        ch = GaussianChannel(I2, np.diag([1.0, -5e-10]))
        assert [validate_channel(ch), validate_channel(ch, 1e-12), validate_channel(ch),
                validate_channel(ch, 0.0)] == [True, False, True, False]
        with pytest.raises(ValidationError):
            classify(ch, 0.0)
        classify(ch)  # the remembered default check still passes

    def test_one_check_per_channel(self, physicality_checks, classify_calls):
        from bosonic_telesim import convergence_scan

        ch = loss_channel(0.5, 0.5)
        classify(ch)
        apply_channel(ch, tmsv_state(2.0), 1)
        compose(ch, ch)
        rows = convergence_scan(ch, np.geomspace(1.1, 1e10, 50))
        assert len(rows) == 50
        assert physicality_checks == [None]
        assert len(classify_calls) == 52  # the scan still classifies 52 times
        validate_channel(ch, 1e-9)
        classify(ch, 1e-9)
        assert physicality_checks == [None, 1e-9, 1e-9]

    def test_the_remembered_check_is_not_a_field(self):
        import dataclasses

        ch = loss_channel(0.5)
        classify(ch)
        assert [f.name for f in dataclasses.fields(ch)] == ["t", "n", "d"]
        assert dataclasses.replace(ch, n=2.0 * ch.n)._physical is False

    def test_a_composite_is_checked_on_its_own_first_use(self, physicality_checks):
        ch = loss_channel(0.5)
        both = compose(ch, ch)
        assert physicality_checks == [None]
        assert classify(both).tag is CanonicalClass.C_Att
        assert classify(both).tau == pytest.approx(0.25)
        assert physicality_checks == [None, None]


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

    @pytest.mark.parametrize("entry", [1e308, 9e307])
    def test_rank_one_noise_beyond_float64_range(self, entry):
        # N = entry [[1, 1], [1, 1]] is valid, but its eigenvalue 2 entry
        # overflows: the ranks are decided on N scaled by 2^-1024
        ch = GaussianChannel(I2, np.full((2, 2), entry))
        assert validate_channel(ch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                assert classify(ch) == CanonicalForm(CanonicalClass.B1, 1.0, 1, 0.0)
                assert channel_rank(ch) == 1.0
                assert decide_uniform(ch).reason == "B1: rank(N)=1"
        # full rank with an overflowing l+ stays full rank, l- = 7e307 above
        # the scaled threshold; a rank-1 N whose l+ fits keeps its route
        full = GaussianChannel(I2, np.array([[1.7e308, 1e308], [1e308, 1.7e308]]))
        assert classify(full).tag is CanonicalClass.B2
        assert channel_rank(full) == 2.0
        assert classify(GaussianChannel(I2, np.full((2, 2), 8e307))).tag is CanonicalClass.B1

    def test_noise_without_a_positive_determinant_is_not_full_rank(self):
        # an eigenvalue of N below 0 inside the physicality slack is no noise,
        # though its singular value passes 1e-10: rank 1, not B2 with xi = 0
        ch = GaussianChannel(I2, np.diag([1.0, -5e-10]))
        assert validate_channel(ch)
        assert classify(ch) == CanonicalForm(CanonicalClass.B1, 1.0, 1, 0.0)
        assert channel_rank(ch) == 1.0
        # det T off 1 beyond the boundary, no class with rank(N) = 1 matches
        off = GaussianChannel(np.sqrt(1.0 + 1e-5) * I2, np.diag([1.0, -5e-10]))
        assert validate_channel(off)
        with pytest.raises(ClassificationAmbiguousError) as err:
            classify(off)
        assert err.value.diagnostics["rank_n"] == 1
        # a positive determinant keeps the full rank
        assert classify(GaussianChannel(I2, np.diag([1.0, 5e-10]))).tag is CanonicalClass.B2
        # both eigenvalues below 0 inside the slack: det N > 0, but no noise,
        # the identity (B2 with xi = 5e-10 by the singular values)
        ident = GaussianChannel(I2, -5e-10 * I2)
        assert validate_channel(ident)
        assert classify(ident) == CanonicalForm(CanonicalClass.B2_Id, 1.0, 0, 0.0)
        assert channel_rank(ident) == 0.0
        # one eigenvalue of 5e-10 above the threshold, one below 0: still B1
        assert classify(GaussianChannel(I2, np.diag([5e-10, -5e-10]))).tag is CanonicalClass.B1

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


class TestNoiseDeterminant:
    """sqrt(det N) is a noise scale only at full rank: below it no class reads
    it, so classify takes no determinant, and a raised ambiguity computes it
    for its diagnostics."""

    def test_rank_deficient_noise_takes_no_determinant(self, rng, monkeypatch):
        from bosonic_telesim import channels

        def refuse(n):
            raise AssertionError("det N taken below full rank")

        monkeypatch.setattr(channels, "_sqrt_det", refuse)
        b1 = CanonicalForm(CanonicalClass.B1, 1.0, 1, 0.0)
        identity = CanonicalForm(CanonicalClass.B2_Id, 1.0, 0, 0.0)
        for _ in range(300):
            s_a, s_b = random_symplectic(1, rng), random_symplectic(1, rng)
            scale = 10.0 ** rng.uniform(-3.0, 300.0)
            unit = GaussianChannel(s_b @ s_a, scale * (s_b @ np.diag([1.0, 0.0]) @ s_b.T))
            assert classify(unit) == b1
            assert channel_rank(unit) == 1.0
            assert decide_uniform(unit).reason == "B1: rank(N)=1"
            for n in (np.zeros((2, 2)), -5e-10 * I2,
                      1e-12 * (s_b @ np.diag([1.0, 0.3]) @ s_b.T)):
                none = GaussianChannel(s_b @ s_a, n)
                assert classify(none) == identity
                assert channel_rank(none) == 0.0

    def test_full_rank_noise_takes_one_determinant(self, monkeypatch):
        from bosonic_telesim import channels

        calls, real = [], channels._sqrt_det
        monkeypatch.setattr(channels, "_sqrt_det", lambda n: calls.append(n) or real(n))
        for ch in (GaussianChannel(I2, 0.1 * I2), loss_channel(0.5, 0.5)):
            calls.clear()
            classify(ch)
            assert len(calls) == 1
        assert classify(GaussianChannel(I2, 0.1 * I2)).noise_param == real(0.1 * I2)

    @pytest.mark.parametrize("t, n, tol, scale", [
        # tau = 0 with a rank-1 N, physical inside the slack of tol = 1e-2
        (np.diag([1.0, 0.0]), np.diag([1e3, 1e-3]), 1e-2, 1.0),
        # tau = 1 + 1e-5 with N's eigenvalue 5e-11 below the rank threshold
        (math.sqrt(1.0 + 1e-5) * I2, np.diag([1.0, 5e-11]), None, math.sqrt(5e-11)),
    ])
    def test_ambiguous_rank_one_noise_reports_its_scale(self, t, n, tol, scale):
        c, s = math.cos(0.7), math.sin(0.7)
        frame = np.array([[c, -s], [s, c]])
        ch = GaussianChannel(t, frame @ n @ frame.T)
        with pytest.raises(ClassificationAmbiguousError) as err:
            classify(ch, tol)
        diagnostics = err.value.diagnostics
        assert diagnostics["rank_n"] == 1
        assert diagnostics["sqrt_det_n"] == math.sqrt(max(np.linalg.det(ch.n), 0.0))
        assert diagnostics["sqrt_det_n"] == pytest.approx(scale, rel=1e-4)
        assert list(diagnostics) == ["tau", "rank_t", "rank_n", "sqrt_det_n"]


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

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_noise_rank_counts_eigenvalues_above_the_threshold(self, data):
        # N = R diag(l1, l2) R^T with |l| log-uniform in [1e-14, 1e3]; a negative
        # l is drawn inside the physicality slack, so the channel validates
        tol = data.draw(st.one_of(st.none(), st.floats(-12.0, -6.0).map(lambda e: 10.0 ** e)))
        slack = 1e-9 if tol is None else tol
        lams = []
        for _ in range(2):
            if data.draw(st.booleans()):
                lams.append(10.0 ** data.draw(st.floats(-14.0, 3.0)))
            else:
                lams.append(-(10.0 ** data.draw(st.floats(-14.0, math.log10(0.5 * slack)))))
        angle = data.draw(st.floats(0.0, 2.0 * math.pi))
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        ch = GaussianChannel(I2, rot @ np.diag(lams) @ rot.T)
        assert validate_channel(ch, tol)
        with mp.workdps(60):
            eigs = symmetric_eigenvalues_mp(ch.n)
            thr = (1e-10 if tol is None else tol) * max(abs(eigs[0]), abs(eigs[1]), 1)
            assume(all(abs(lam - thr) > 0.01 * thr for lam in eigs))
            rank = sum(1 for lam in eigs if lam > thr)
        assert channel_rank(ch, tol) == rank  # T = I has rank 2
        assert classify(ch, tol).r == rank
        if min(lams) > 0.0:  # positive-semidefinite: the singular values agree
            assert _numeric_rank(ch.n, tol) == rank


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
