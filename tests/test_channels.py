import copy
import math
import pickle
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _helpers import (apply_channel_dense, conjugated_channel, numeric_rank_np,
                      random_state, random_symplectic, raw_channel_specs, sample_form,
                      symmetric_eigenvalues_mp)
from bosonic_telesim import (BosonicTelesimError, CanonicalClass, CanonicalForm,
                             ClassificationAmbiguousError, DomainError, GaussianChannel,
                             ValidationError, apply_channel, canonical_channel,
                             canonical_matrices, channel_from_dict, channel_to_dict,
                             classify, compose, form_from_fields,
                             thermal_state, tmsv_state, validate_channel)
from bosonic_telesim.channels import _noise_invariants, _numeric_rank
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

        calls, real = [], channels._checked2

        def counted(m, tol, w=None, what="covariance matrix"):
            if what == "channel noise matrix":
                calls.append(tol)
            return real(m, tol, w, what)

        monkeypatch.setattr(channels, "_checked2", counted)
        return calls

    def test_failed_check_raises_the_same_error_on_every_use(self):
        ch = GaussianChannel(2.0 * I2, 0.5 * I2)  # det N = 0.25 < (det T - 1)^2 = 9
        messages = set()
        for _ in range(3):
            assert not validate_channel(ch)
            for use in (classify, lambda c: apply_channel(c, thermal_state(1.0)),
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
        assert len(classify_calls) == 1  # the scan classifies once
        validate_channel(ch, 1e-9)
        classify(ch, 1e-9)
        assert physicality_checks == [None, 1e-9, 1e-9]

    def test_the_remembered_check_is_not_a_field(self):
        import inspect

        ch = loss_channel(0.5)
        classify(ch)
        assert list(inspect.signature(GaussianChannel).parameters) == ["t", "n", "d"]
        assert GaussianChannel(ch.t, 2.0 * ch.n)._physical is False

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_is_built_again_and_checked_on_its_own_use(self, copier, physicality_checks):
        # the copy goes through the constructor: the same floats, signed zeros
        # too, and no remembered check
        ch = GaussianChannel([[0.5, -0.0], [0.25, -1.5]], [[2.0, -0.0], [-0.0, 3.0]],
                             [1e-300, -0.0])
        classify(ch)
        twin = copier(ch)
        assert type(twin) is GaussianChannel and twin is not ch
        assert [x.hex() for x in twin._t + twin._n + twin._d + (twin.tau,)] == \
            [x.hex() for x in ch._t + ch._n + ch._d + (ch.tau,)]
        assert ch._physical and not twin._physical
        assert classify(twin) == classify(ch) and physicality_checks == [None, None]

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
    def test_dense_embedding_within_roundoff(self, seed, modes_target):
        # the float route against the exact dense embedding: a CM entry is two
        # nested two-term dot products plus N, then symmetrized by the state,
        # so at most 6 roundings and within gamma_6 of its magnitude
        # (|T| |V| |T|^T + |N|); a mean entry within gamma_3 of |T| |m| + |d|
        # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3)
        modes, target = modes_target
        rng = np.random.default_rng(seed)
        ch = conjugated_channel(sample_form(rng), rng)
        state = random_state(modes, rng, nu_max=3.0, max_squeeze=4.0, displace=1.0)
        got = apply_channel(ch, state, target)
        exact = apply_channel_dense(ch, state, target)
        scale = apply_channel_dense(ch, state, target, entry=lambda x: abs(Fraction(x)))
        u = Fraction(1, 2 ** 53)
        for k, floats, want, size in ((3, got.mean.tolist(), exact[0], scale[0]),
                                      (6, got.cm.tolist(), exact[1], scale[1])):
            gamma = k * u / (1 - k * u)
            for x, y, z in zip(np.ravel(floats), np.ravel(want), np.ravel(size)):
                assert abs(Fraction(float(x)) - y) <= gamma * z

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
        assert classify(ch, 0.0).noise_param == math.sqrt(0.1 * 1e-11)  # det N rounded once

    def test_huge_noise_matrix_does_not_overflow(self):
        # det N = 1.96e616 is beyond float64; N is scaled by 2^-1024 first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            form = classify(channel_from_dict({"class": "A2", "nbar": 7e307}))
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                assert classify(channel_from_dict({"class": "A2", "nbar": 7e307})) == form
        assert form.tag is CanonicalClass.A2
        assert abs(form.noise_param - 7e307) <= 4 * math.ulp(7e307)

    def test_huge_noise_matrix_with_finite_det(self):
        # max|N| beyond 2^511, det N = 1e308 finite: the exact det of N scaled
        # by 2^-e, 2^e > max|N|, rounded once, its root scaled back by 2^e
        n = np.diag([1e158, 1e150])
        form = classify(GaussianChannel(np.diag([1.0, 0.0]), n))
        assert form.tag is CanonicalClass.A2
        e = math.frexp(1e158)[1]
        root = math.ldexp(math.sqrt(math.ldexp(1e158, -e) * math.ldexp(1e150, -e)), e)
        assert form.noise_param == 0.5 * (root - 1.0)
        with mp.workdps(60):
            want = (mp.sqrt(mp.mpf(1e158) * mp.mpf(1e150)) - 1) / 2
            assert abs(form.noise_param - want) <= 2 * math.ulp(form.noise_param)

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
                assert classify(ch).r == 1
                assert decide_uniform(ch).reason == "B1: rank(N)=1"
        # full rank with an overflowing l+ stays full rank, l- = 7e307 above
        # the scaled threshold; a rank-1 N whose l+ fits keeps its route
        full = GaussianChannel(I2, np.array([[1.7e308, 1e308], [1e308, 1.7e308]]))
        assert classify(full).tag is CanonicalClass.B2
        assert classify(full).r == 2
        assert classify(GaussianChannel(I2, np.full((2, 2), 8e307))).tag is CanonicalClass.B1

    def test_noise_without_a_positive_determinant_is_not_full_rank(self):
        # an eigenvalue of N below 0 inside the physicality slack is no noise,
        # though its singular value passes 1e-10: rank 1, not B2 with xi = 0
        ch = GaussianChannel(I2, np.diag([1.0, -5e-10]))
        assert validate_channel(ch)
        assert classify(ch) == CanonicalForm(CanonicalClass.B1, 1.0, 1, 0.0)
        assert classify(ch).r == 1
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
        assert classify(ident).r == 0
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


def exact_det(m) -> float:
    """det of the float 2x2 m from its exact rational entries, rounded once;
    beyond float64 range the inf of its sign."""
    (a, b), (c, d) = (map(Fraction, row) for row in np.asarray(m, dtype=float).tolist())
    exact = a * d - b * c
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


class TestNoiseDeterminant:
    """sqrt(det N) is a noise scale only at full rank: below it no class reads
    it, so classify reports none, and a raised ambiguity carries it in its
    diagnostics.  It is the root of the exact det N, rounded once."""

    def test_rank_deficient_noise_has_no_noise_scale(self, rng):
        b1 = CanonicalForm(CanonicalClass.B1, 1.0, 1, 0.0)
        identity = CanonicalForm(CanonicalClass.B2_Id, 1.0, 0, 0.0)
        for _ in range(300):
            s_a, s_b = random_symplectic(1, rng), random_symplectic(1, rng)
            scale = 10.0 ** rng.uniform(-3.0, 300.0)
            unit = GaussianChannel(s_b @ s_a, scale * (s_b @ np.diag([1.0, 0.0]) @ s_b.T))
            assert classify(unit) == b1
            assert classify(unit).r == 1
            assert decide_uniform(unit).reason == "B1: rank(N)=1"
            for n in (np.zeros((2, 2)), -5e-10 * I2,
                      1e-12 * (s_b @ np.diag([1.0, 0.3]) @ s_b.T)):
                none = GaussianChannel(s_b @ s_a, n)
                assert classify(none) == identity
                assert classify(none).r == 0

    def test_full_rank_noise_scale_is_the_exact_determinant(self, rng):
        for ch in (GaussianChannel(I2, 0.1 * I2), loss_channel(0.5, 0.5)):
            assert classify(ch).noise_param == (
                math.sqrt(exact_det(ch.n)) if classify(ch).tag is CanonicalClass.B2
                else 0.5 * (math.sqrt(exact_det(ch.n)) / abs(1.0 - ch.tau) - 1.0))
        for _ in range(300):
            s_b = random_symplectic(1, rng)
            n = s_b @ np.diag(10.0 ** rng.uniform(-9.0, 3.0, 2)) @ s_b.T
            ch = GaussianChannel(I2, n)
            assert classify(ch, 0.0).noise_param == math.sqrt(exact_det(ch.n))

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
        assert diagnostics["sqrt_det_n"] == math.sqrt(max(exact_det(ch.n), 0.0))
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
        assert classify(GaussianChannel.identity()).r == 0

    def test_unit_rank(self):
        assert classify(GaussianChannel(I2, np.diag([0.0, 1.0]))).r == 1

    def test_full_rank_classes(self, rng):
        for tag in (CanonicalClass.C_Att, CanonicalClass.C_Amp, CanonicalClass.D):
            form = sample_form(rng)
            while form.tag is not tag:
                form = sample_form(rng)
            assert classify(canonical_channel(form)).r == 2

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
        assert classify(ch, tol).r == rank  # T = I has rank 2
        if min(lams) > 0.0:  # positive-semidefinite: the singular values agree
            assert _numeric_rank(tuple(ch.n.ravel().tolist()), exact_det(ch.n), tol) == rank


@st.composite
def _ranked_matrices(draw):
    """``(T, tol)``: T = scale R(alpha) diag(1, s2) R(beta), optionally reflected,
    at scales 1e-300 to 1e300, with s2 giving rank 0, 1 or 2, or a second
    singular value at ``thr (1 +/- 1e-12)`` of the rank threshold."""
    tol = draw(st.sampled_from([None, 1e-12, 1e-6]))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    kind = draw(st.sampled_from(["rank 0", "rank 1", "rank 2", "at threshold"]))
    s1 = 0.0 if kind == "rank 0" else scale
    if kind == "rank 2":
        s2 = s1 * 10.0 ** draw(st.floats(-20.0, 0.0))
    elif kind == "at threshold":
        s2 = (1e-10 if tol is None else tol) * max(s1, 1.0) * draw(
            st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 1e-12]))
    else:
        s2 = 0.0

    def rot(angle):
        return np.array([[math.cos(angle), -math.sin(angle)],
                         [math.sin(angle), math.cos(angle)]])
    flip = np.diag([1.0, draw(st.sampled_from([1.0, -1.0]))])
    t = (rot(draw(st.floats(0.0, 2.0 * math.pi))) @ np.diag([s1, s2]) @ flip
         @ rot(draw(st.floats(0.0, 2.0 * math.pi))))
    return t, tol


class TestNumericRank:
    """rank T from the closed-form singular values: numpy's SVD count, and
    the 60-digit count, wherever no singular value is at the threshold."""

    @given(_ranked_matrices())
    @example((np.zeros((2, 2)), None))
    @example((np.diag([1.0, 5e-11]), None))
    @example((np.diag([1.0, 2e-10]), None))
    @example((np.diag([1.0, 5e-11]), 1e-12))
    # a scaled rotation: equal singular values, of which mp.svd_r returned one
    @example((np.array([[1.70e-283, -1.22e-283], [1.22e-283, 1.70e-283]]), None))
    @settings(max_examples=1000, deadline=None)
    def test_counts_like_numpy_svd_away_from_the_threshold(self, drawn):
        t, tol = drawn
        assume(math.isfinite(exact_det(t)))  # as for every valid channel
        rank = _numeric_rank(tuple(t.ravel().tolist()), exact_det(t), tol)
        assert type(rank) is int
        with mp.workdps(60):
            # the singular values are the roots of the eigenvalues of T^T T,
            # which is exact at 60 digits, descending; an eigenvalue of
            # roundoff below 0 has the root 0
            m = mp.matrix(t.tolist())
            sv = sorted((mp.sqrt(max(x, 0)) for x in mp.eigsy(m.T * m, eigvals_only=True)),
                        reverse=True)
            thr = (1e-10 if tol is None else tol) * max(sv[0], 1)
            # numpy's SVD is within about eps s1 of each singular value
            assume(all(abs(x - thr) > 1e-3 * thr + 1e-13 * max(sv[0], 1) for x in sv))
            assert rank == sum(1 for x in sv if x > thr)
        assert rank == numeric_rank_np(t, tol)

    def test_singular_value_beyond_float64_range(self):
        # s1 = 2e308 overflows: decided on T scaled by 2^-1024, rank 1 (tau = 0)
        t = (1e308, 1e308, 1e308, 1e308)
        assert _numeric_rank(t, 0.0, None) == 1
        assert _numeric_rank(t, 0.0, 0.0) == 1


class TestExactDeterminant:
    """tau = det T is ``a d - b c`` correctly rounded from its exact value."""

    @given(st.lists(st.one_of(st.floats(-1e3, 1e3),
                              st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=4, max_size=4))
    @example([1.0, 0.0, 0.0, 5e-11])
    @example([1.0, 0.0, 0.0, 1e100])
    @example([1.0, 0.0, 0.0, 1e-100])
    @example([1.0, 0.0, 0.0, 1e-300])
    @example([0.1, 0.3, 0.7, 2.1])  # a d and b c round to the same float
    @settings(max_examples=1000, deadline=None)
    def test_tau_is_correctly_rounded(self, entries):
        a, b, c, d = entries
        tau = GaussianChannel([[a, b], [c, d]], I2).tau
        assert type(tau) is float and tau == exact_det([[a, b], [c, d]])

    @pytest.mark.parametrize("d", [5e-11, 1e100, 1e-100, 1e-300])
    def test_diagonal_tau_is_the_product(self, d):
        # numpy's det, sign * exp(logdet), was 10, 57, 87 and 143 ulp off
        assert GaussianChannel(np.diag([1.0, d]), I2).tau == d

    def test_classify_reports_the_channel_tau(self, rng):
        for _ in range(100):
            form = sample_form(rng)
            ch = conjugated_channel(form, rng)
            back = classify(ch)
            assert back.tau == (ch.tau if back.tag.fixed_tau is None else back.tag.fixed_tau)


class TestNoiseRankBoundary:
    """Near every rank boundary of N, N counts as full rank exactly when its
    noise scale sqrt(det N) is positive: a rank-2 N always has one, and an N
    whose 60-digit eigenvalues both clear the threshold is rank 2."""

    @given(st.data())
    @settings(max_examples=1000, deadline=None)
    def test_full_rank_exactly_with_a_positive_noise_scale(self, data):
        tol = data.draw(st.sampled_from([None, 0.0, 1e-12, 1e-6]))
        base = 1e-10 if tol is None else tol
        big = 10.0 ** data.draw(st.floats(-3.0, 300.0))
        kind = data.draw(st.sampled_from(["threshold", "zero", "tiny", "negative"]))
        if kind == "threshold":
            small = base * max(big, 1.0) * (1.0 + data.draw(st.floats(-1e-6, 1e-6)))
        elif kind == "zero":
            small = data.draw(st.sampled_from([0.0, 5e-324, -5e-324]))
        elif kind == "tiny":
            small = 10.0 ** data.draw(st.floats(-320.0, -12.0))
        else:
            small = -(10.0 ** data.draw(st.floats(-14.0, -9.5)))
        angle = data.draw(st.floats(0.0, 2.0 * math.pi))
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        ch = GaussianChannel(I2, rot @ np.diag([big, small]) @ rot.T)
        assume(validate_channel(ch, tol))
        (p, r), (_, q) = ch.n.tolist()
        rank, sqrt_det = _noise_invariants((p, r, q), tol)
        assert sqrt_det == math.sqrt(max(exact_det(ch.n), 0.0)) or big > 2.0 ** 511
        if rank == 2:
            assert sqrt_det > 0.0 and exact_det(ch.n) > 0.0
        if sqrt_det == 0.0:
            assert rank < 2
        with mp.workdps(60):
            eigs = symmetric_eigenvalues_mp(ch.n)
            thr = base * max(abs(eigs[0]), abs(eigs[1]), 1)
            if all(lam > thr * (1 + 1e-3) + 1e-13 * max(abs(eigs[0]), 1) for lam in eigs):
                assert rank == 2 and sqrt_det > 0.0
        form = classify(ch, tol)  # T = I: B2 carries the scale, B1 and B2_Id none
        assert (form.tag is CanonicalClass.B2) == (rank == 2)
        assert form.noise_param == (sqrt_det if rank == 2 else 0.0)


# the paper's table, written out independently of CanonicalClass:
# tag: (tau, rank T, rank N, r, spec fields, a valid set of fields)
CLASS_TABLE = {
    "A1": ("= 0", 0, 2, 0, ("nbar",), {"nbar": 0.3}),
    "A2": ("= 0", 1, 2, 1, ("nbar",), {"nbar": 0.3}),
    "B1": ("= 1", 2, 1, 1, (), {}),
    "B2_Id": ("= 1", 2, 0, 0, (), {}),
    "B2": ("= 1", 2, 2, 2, ("xi",), {"xi": 0.2}),
    "C_Att": ("in (0, 1)", 2, 2, 2, ("tau", "nbar"), {"tau": 0.4, "nbar": 0.3}),
    "C_Amp": ("> 1", 2, 2, 2, ("tau", "nbar"), {"tau": 2.5, "nbar": 0.3}),
    "D": ("< 0", 2, 2, 2, ("tau", "nbar"), {"tau": -1.5, "nbar": 0.3}),
}


class TestClassTable:
    def test_eight_distinct_rows(self):
        assert {tag.value for tag in CanonicalClass} == set(CLASS_TABLE)
        keys = {(tag.region, tag.rank_t, tag.rank_n) for tag in CanonicalClass}
        assert len(keys) == 8

    @pytest.mark.parametrize("name", list(CLASS_TABLE))
    def test_row(self, name):
        region, rank_t, rank_n, r, fields, _ = CLASS_TABLE[name]
        tag = CanonicalClass(name)
        assert (tag.region, tag.rank_t, tag.rank_n, tag.r, tag.fields) == (
            region, rank_t, rank_n, r, fields)
        assert tag.r == rank_t * rank_n / 2
        assert tag.fixed_tau == {"= 0": 0.0, "= 1": 1.0}.get(region)
        assert ("tau" in tag.fields) is (tag.fixed_tau is None)

    @pytest.mark.parametrize("name", list(CLASS_TABLE))
    def test_classify_reads_the_row(self, name):
        *_, fields = CLASS_TABLE[name]
        tag = CanonicalClass(name)
        ch = canonical_channel(form_from_fields(tag, **fields))
        form = classify(ch)
        assert (form.tag, form.r) == (tag, tag.r)
        # a fixed tau is reported exactly, a free one within roundoff of sqrt(tau)^2
        assert form.tau == pytest.approx(fields.get("tau", tag.fixed_tau), rel=1e-15)
        assert tag.fixed_tau is None or form.tau == tag.fixed_tau
        assert decide_uniform(ch).uniform is (tag.rank_n == 2)
        assert channel_from_dict({"class": name, **fields}).t.tolist() == ch.t.tolist()

    @pytest.mark.parametrize("t, n, message", [
        (np.diag([1e-6, 1e-6]), 2.0 * I2, "tau = 0, rank(T) = 2 and rank(N) = 2"),
        (np.sqrt(1.0 + 1e-5) * I2, np.diag([1.0, -5e-10]),
         "tau > 1, rank(T) = 2 and rank(N) = 1"),
    ])
    def test_a_key_no_row_has_is_ambiguous(self, t, n, message):
        with pytest.raises(ClassificationAmbiguousError, match=re.escape(message)) as err:
            classify(GaussianChannel(t, n))
        assert list(err.value.diagnostics) == ["tau", "rank_t", "rank_n", "sqrt_det_n"]


class TestFormFromFields:
    @pytest.mark.parametrize("tag, fields", [
        (CanonicalClass.A1, {"tau": 0.7}),
        (CanonicalClass.A2, {"tau": 0.3}),
        (CanonicalClass.A2, {"xi": 0.1}),
        (CanonicalClass.B1, {"nbar": 3.0, "xi": 2.0}),
        (CanonicalClass.B1, {"xi": 2.0}),
        (CanonicalClass.B2_Id, {"nbar": 1.0}),
        (CanonicalClass.B2, {"tau": 5.0, "xi": 0.1}),
        (CanonicalClass.B2, {"nbar": 0.5, "xi": 0.1}),
        (CanonicalClass.C_Att, {"tau": 0.5, "xi": 0.1}),
        (CanonicalClass.D, {"tau": -1.0, "xi": 0.1}),
    ])
    def test_a_field_outside_the_row_raises(self, tag, fields):
        with pytest.raises(DomainError, match=f"class {tag.value} has no field"):
            form_from_fields(tag, **fields)
        spec = {"class": tag.value, **fields}
        with pytest.raises(ValidationError, match=f"not allowed for class {tag.value}"):
            channel_from_dict(spec)

    @pytest.mark.parametrize("tag", list(CanonicalClass))
    def test_defaults_of_absent_fields_are_accepted(self, tag):
        # the defaults stand for an absent field, as callers pass them
        form = form_from_fields(tag, **{"tau": None, "nbar": 0.0, "xi": 0.0,
                                        **CLASS_TABLE[tag.value][5]})
        assert form.tag is tag

    @pytest.mark.parametrize("tag, fields", [
        (CanonicalClass.A1, {"nbar": math.nan}),
        (CanonicalClass.A2, {"nbar": math.inf}),
        (CanonicalClass.B2, {"xi": math.nan}),
        (CanonicalClass.B2, {"xi": math.inf}),
        (CanonicalClass.C_Att, {"tau": 0.5, "nbar": math.nan}),
        (CanonicalClass.C_Att, {"tau": math.nan}),
        (CanonicalClass.C_Amp, {"tau": math.inf}),
        (CanonicalClass.C_Amp, {"tau": math.nan}),
        (CanonicalClass.D, {"tau": -math.inf}),
        (CanonicalClass.D, {"tau": -1.0, "nbar": math.inf}),
    ])
    def test_non_finite_fields_raise_before_any_array(self, tag, fields):
        # no form is returned, so canonical_channel never multiplies a NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                form_from_fields(tag, **fields)

    @pytest.mark.parametrize("tag, fields", [
        (CanonicalClass.A1, {"nbar": "0.5"}),
        (CanonicalClass.A1, {"nbar": None}),
        (CanonicalClass.B2, {"xi": True}),
        (CanonicalClass.C_Att, {"tau": "0.5"}),
        (CanonicalClass.B1, {"xi": [1.0]}),
    ])
    def test_non_real_fields_raise(self, tag, fields):
        with pytest.raises(DomainError, match="must be a real number"):
            form_from_fields(tag, **fields)

    @pytest.mark.parametrize("tag, tau", [
        (CanonicalClass.C_Att, 0.0), (CanonicalClass.C_Att, 1.0), (CanonicalClass.C_Amp, 1.0),
        (CanonicalClass.C_Amp, 0.5), (CanonicalClass.D, 0.0), (CanonicalClass.D, -0.0),
    ])
    def test_tau_outside_the_region_raises(self, tag, tau):
        with pytest.raises(DomainError, match=f"class {tag.value} requires a finite tau"):
            form_from_fields(tag, tau=tau)

    @pytest.mark.parametrize("tag", [CanonicalClass.C_Att, CanonicalClass.C_Amp,
                                     CanonicalClass.D])
    def test_a_free_tau_is_required(self, tag):
        with pytest.raises(DomainError, match="requires a tau value"):
            form_from_fields(tag)


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
