import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (random_state, random_symplectic, symplectic_spectrum_mp,
                      tmsv_cm_blocks)
from bosonic_telesim import (CanonicalClass, DomainError, GaussianState,
                             InvalidDimensionError, SymplecticMatrix, ValidationError,
                             apply_affine, canonical_channel, form_from_fields,
                             is_symplectic, partial_trace, quasi_choi, simulate_channel,
                             symplectic_eigenvalues, symplectic_form, tensor_states,
                             thermal_state, tmsv_state, williamson)

OMEGA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
EPS = np.finfo(float).eps


class TestSymplecticForm:
    def test_one_mode(self):
        assert np.array_equal(symplectic_form(1), OMEGA1)

    def test_two_modes_block_diagonal(self):
        om = symplectic_form(2)
        assert np.array_equal(om[:2, :2], OMEGA1)
        assert np.array_equal(om[2:, 2:], OMEGA1)
        assert np.array_equal(om[:2, 2:], np.zeros((2, 2)))

    def test_orthogonality(self):
        for n in (1, 2, 3):
            om = symplectic_form(n)
            assert np.array_equal(om @ om.T, np.eye(2 * n))

    def test_zero_modes_rejected(self):
        with pytest.raises(InvalidDimensionError):
            symplectic_form(0)

    @pytest.mark.parametrize("bad", [2.0, [2]])
    def test_non_integer_rejected_after_cached_call(self, bad):
        symplectic_form(2)
        with pytest.raises(InvalidDimensionError):
            symplectic_form(bad)


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(np.eye(2))
        assert is_symplectic(np.eye(4))

    def test_squeezer(self):
        assert is_symplectic(np.diag([2.0, 0.5]))

    def test_uniform_scaling_is_not(self):
        assert not is_symplectic(np.diag([2.0, 2.0]))

    def test_odd_dimension(self):
        with pytest.raises(InvalidDimensionError):
            is_symplectic(np.eye(3))

    def test_wrapper_type_validates(self):
        s = SymplecticMatrix(np.diag([2.0, 0.5]))
        assert s.modes == 1
        with pytest.raises(ValidationError):
            SymplecticMatrix(np.diag([2.0, 2.0]))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert symplectic_eigenvalues(np.eye(2)) == pytest.approx([1.0])

    def test_squeezed_thermal(self):
        assert symplectic_eigenvalues(np.diag([4.0, 1.0])) == pytest.approx([2.0])

    def test_tmsv_is_pure(self):
        assert symplectic_eigenvalues(tmsv_state(2.0).cm) == pytest.approx([1.0, 1.0])

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValidationError):
            symplectic_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_product_matches_determinant(self, rng):
        for _ in range(50):
            cm = random_state(2, rng).cm
            nus = symplectic_eigenvalues(cm)
            assert np.prod(nus) == pytest.approx(np.sqrt(np.linalg.det(cm)), rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_extended_precision_oracle(self, rng, n):
        # backward stable: the relative error stays within a few eps times
        # the condition number max|V| max|V^-1| (measured at most 2.5)
        for _ in range(20):
            cm = random_state(n, rng, nu_max=10.0, max_squeeze=1e3).cm
            cond = np.max(np.abs(cm)) * np.max(np.abs(np.linalg.inv(cm)))
            oracle = np.array([float(x) for x in symplectic_spectrum_mp(cm)])
            got = symplectic_eigenvalues(cm)
            assert np.max(np.abs(got - oracle) / oracle) <= 16.0 * EPS * cond

    def test_cm_singular_to_roundoff(self):
        # the float64 TMSV CMs themselves: 60 digits give nu = 0.8631674575 at
        # mu = 5e7 and about 0 at mu = 1e12 (not 1: the rounded entries)
        assert symplectic_eigenvalues(tmsv_state(5e7).cm) == pytest.approx(
            [0.8631674575] * 2, rel=1e-6)
        assert symplectic_eigenvalues(tmsv_state(1e12).cm)[0] <= 1e-3

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError):
            symplectic_eigenvalues(np.diag([4.0, -1e-3]))

    def test_tol_loosens_the_symmetry_check(self):
        cm = np.array([[2.0, 1e-8], [0.0, 2.0]])
        with pytest.raises(ValidationError, match="symmetric within tolerance 1e-12"):
            symplectic_eigenvalues(cm)
        assert symplectic_eigenvalues(cm, 1e-6) == pytest.approx([2.0], rel=1e-15)

    def test_stack_input_is_rejected(self):
        # one matrix per call: a stack of CMs is a 3-D input
        for shape in ((2, 2, 2), (2, 2, 3), (0, 2, 2), (2, 3, 3)):
            with pytest.raises(InvalidDimensionError):
                symplectic_eigenvalues(np.zeros(shape))


class TestWilliamson:
    def test_vacuum(self):
        dec = williamson(np.eye(2))
        assert dec.spectrum == pytest.approx([1.0])
        assert np.allclose(dec.s.s @ dec.s.s.T, np.eye(2), atol=1e-12)

    def test_thermal(self):
        dec = williamson(3.0 * np.eye(2))
        assert dec.spectrum == pytest.approx([3.0])

    def test_random_two_mode_reconstruction(self, rng):
        cm = random_state(2, rng).cm
        dec = williamson(cm)
        target = dec.diagonal()
        assert np.max(np.abs(dec.s.s @ cm @ dec.s.s.T - target)) <= 1e-10

    def test_symplectic_factor(self, rng):
        for n in (1, 2):
            cm = random_state(n, rng).cm
            dec = williamson(cm)
            assert is_symplectic(dec.s.s, 1e-10)

    def test_spectrum_sorted_descending(self, rng):
        for _ in range(20):
            dec = williamson(random_state(2, rng).cm)
            assert dec.spectrum[0] >= dec.spectrum[1]

    def test_not_positive_definite(self):
        with pytest.raises(ValidationError):
            williamson(np.diag([1.0, -1.0]))

    def test_tol_loosens_the_symmetry_check(self):
        cm = np.array([[2.0, 1e-8], [0.0, 2.0]])
        with pytest.raises(ValidationError, match="symmetric within tolerance 1e-12"):
            williamson(cm)
        dec = williamson(cm, tol=1e-6)
        assert dec.spectrum == pytest.approx((2.0,), rel=1e-15)
        assert np.max(np.abs(dec.s.s @ (0.5 * (cm + cm.T)) @ dec.s.s.T
                             - dec.diagonal())) <= 1e-12

    @pytest.mark.parametrize("cm, spectrum", [
        (tmsv_state(2.0).cm, (1.0, 1.0)),
        (3.0 * np.eye(4), (3.0, 3.0)),
        (np.diag([2.0, 2.0, 2.0 + 1e-9, 2.0 + 1e-9]), (2.0 + 1e-9, 2.0)),
    ])
    def test_degenerate_spectra(self, cm, spectrum):
        dec = williamson(cm)
        assert dec.spectrum == pytest.approx(spectrum, rel=1e-14)
        assert np.max(np.abs(dec.s.s @ cm @ dec.s.s.T - dec.diagonal())) <= 1e-13
        assert is_symplectic(dec.s.s, 1e-13)

    def test_three_modes(self, rng):
        for _ in range(10):
            cm = random_state(3, rng).cm
            dec = williamson(cm)
            assert np.max(np.abs(dec.s.s @ cm @ dec.s.s.T - dec.diagonal())) <= 1e-11
            assert is_symplectic(dec.s.s, 1e-12)
            assert list(dec.spectrum) == sorted(dec.spectrum, reverse=True)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_extended_precision_oracle(self, rng, n):
        for _ in range(10):
            cm = random_state(n, rng, nu_max=10.0, max_squeeze=4.0).cm
            oracle = symplectic_spectrum_mp(cm)
            for got, want in zip(williamson(cm).spectrum, oracle):
                assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("cls, tau, nbar, mu", [
        ("C_Amp", 3.1764667999533556, 0.008068264549870863, 918430.410183697),
        ("C_Att", 0.5, 0.5, 1e7),
        ("C_Amp", 1.5, 0.0, 1e7),
    ])
    def test_large_resource_quasi_choi(self, cls, tau, nbar, mu):
        # phase-space entries of order mu: the symplectic self-check scales
        # with max|V|, so these valid states decompose
        form = form_from_fields(CanonicalClass(cls), tau=tau, nbar=nbar)
        cm = quasi_choi(simulate_channel(canonical_channel(form), mu).effective, mu).cm
        dec = williamson(cm)
        for got, want in zip(dec.spectrum, symplectic_spectrum_mp(cm)):
            assert abs(got - want) <= 1e-6 * want


class TestStates:
    def test_tmsv_at_unity_is_double_vacuum(self):
        assert np.array_equal(tmsv_state(1.0).cm, np.eye(4))

    def test_tmsv_blocks(self):
        cm = tmsv_state(2.0).cm
        assert np.allclose(cm[:2, 2:], np.sqrt(3.0) * np.diag([1.0, -1.0]))

    @given(st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_tmsv_purity(self, mu):
        nus = symplectic_eigenvalues(tmsv_state(mu).cm)
        assert np.max(np.abs(nus - 1.0)) <= 1e-6 * mu

    @given(st.one_of(st.floats(1.0, 1e12), st.sampled_from([1.0, 1.0 + 2 ** -52, 1e12])))
    @settings(max_examples=100, deadline=None)
    def test_tmsv_equals_block_construction(self, mu):
        want = GaussianState(np.zeros(4), tmsv_cm_blocks(mu))
        assert tmsv_state(mu).cm.tobytes() == want.cm.tobytes()

    def test_tmsv_at_unity_keeps_signed_zeros(self):
        cm = tmsv_state(1.0).cm
        assert np.signbit(cm[1, 3]) and np.signbit(cm[3, 1]) and not np.signbit(cm[0, 2])

    def test_tmsv_domain(self):
        with pytest.raises(DomainError):
            tmsv_state(0.5)

    def test_thermal(self):
        assert np.array_equal(thermal_state(1.0).cm, np.eye(2))
        assert np.array_equal(thermal_state(3.0).cm, 3.0 * np.eye(2))
        assert symplectic_eigenvalues(thermal_state(3.0).cm) == pytest.approx([3.0])
        with pytest.raises(DomainError):
            thermal_state(0.9)

    def test_state_validation(self):
        with pytest.raises(ValidationError):
            GaussianState(np.zeros(2), 0.5 * np.eye(2))  # below vacuum noise
        with pytest.raises(InvalidDimensionError):
            GaussianState(np.zeros(3), np.eye(2))

    def test_state_immutable(self):
        state = thermal_state(2.0)
        with pytest.raises(ValueError):
            state.cm[0, 0] = 5.0

    @pytest.mark.parametrize("dim", [2, 4])
    def test_state_does_not_alias_its_input(self, dim):
        cm, mean = 2.0 * np.eye(dim), np.zeros(dim)
        state = GaussianState(mean, cm)
        cm[0, 0], mean[0] = 5.0, 1.0
        assert state.cm[0, 0] == 2.0 and state.mean[0] == 0.0
        assert not state.cm.flags.writeable and not state.mean.flags.writeable


class TestPurityPass:
    """``is_pure`` and ``symplectic_spectrum`` hand the state itself to the
    spectral kernel, which takes a state's CM as constructed: checked and
    symmetrized once, at construction."""

    def test_spectrum_equals_the_checked_cm_route(self, rng):
        from bosonic_telesim import symplectic

        for n in (1, 2) * 50:
            state = random_state(n, rng, max_squeeze=3.0)
            for got, want in zip(symplectic._sqrt_form(state, None),
                                 symplectic._sqrt_form(state.cm, None)):
                assert got.tobytes() == want.tobytes()
            assert state.symplectic_spectrum().tobytes() == \
                symplectic_eigenvalues(state.cm).tobytes()

    def test_state_cm_is_not_checked_again(self, rng, monkeypatch):
        from bosonic_telesim import gaussian_fidelity, symplectic

        s1, s2 = random_state(2, rng), tmsv_state(3.0)
        calls, real = [], symplectic._checked
        monkeypatch.setattr(symplectic, "_checked",
                            lambda *args: calls.append(args) or real(*args))
        assert s2.is_pure() and not s1.is_pure()
        s1.symplectic_spectrum()
        gaussian_fidelity(s1, s2)
        assert calls == []
        symplectic_eigenvalues(s1.cm)  # a raw array is still checked
        assert len(calls) == 1

    def test_kernel_near_float64_range(self):
        # K - K^T and the spectrum's nu - (-nu) overflowed here, ending in
        # "Eigenvalues did not converge"; both are halved first now
        big = 1.7e308
        state = GaussianState(np.zeros(4), big * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state.symplectic_spectrum() == pytest.approx([big, big], rel=1e-15)
            assert state.is_pure() is False
            assert williamson(state.cm).spectrum == pytest.approx((big, big), rel=1e-15)

    def test_kernel_beyond_float64_range_raises_overflow_error(self):
        # ||V||_2 = 2.25e308: V^{1/2} Omega V^{1/2} leaves float64 range
        z = np.zeros((2, 2))
        cm = np.block([[1.5e308 * np.array([[1.0, 0.5], [0.5, 1.0]]), z], [z, np.eye(2)]])
        state = GaussianState(np.zeros(4), cm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (state.symplectic_spectrum, state.is_pure, lambda: williamson(cm)):
                with pytest.raises(OverflowError, match="beyond float64 range"):
                    call()


class TestApplyAffine:
    def test_identity_noop(self):
        state = thermal_state(2.0)
        out = apply_affine(state, np.eye(2), np.zeros(2))
        assert np.array_equal(out.cm, state.cm)
        assert np.array_equal(out.mean, state.mean)

    def test_squeezing_vacuum(self):
        out = apply_affine(GaussianState.vacuum(), np.diag([2.0, 0.5]))
        assert np.allclose(out.cm, np.diag([4.0, 0.25]))

    def test_spectrum_invariant(self, rng):
        state = random_state(2, rng)
        s = random_symplectic(2, rng)
        out = apply_affine(state, s, rng.normal(size=4))
        assert np.allclose(sorted(out.symplectic_spectrum()),
                           sorted(state.symplectic_spectrum()), rtol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            apply_affine(thermal_state(2.0), np.eye(4))


class TestPartialTrace:
    def test_tmsv_marginal_is_thermal(self):
        mu = 3.0
        for keep in (0, 1):
            red = partial_trace(tmsv_state(mu), keep)
            assert np.allclose(red.cm, mu * np.eye(2))

    def test_product_state_factor(self, rng):
        a, b = random_state(1, rng, displace=1.0), random_state(1, rng, displace=1.0)
        joint = tensor_states(a, b)
        assert np.allclose(partial_trace(joint, 0).cm, a.cm)
        assert np.allclose(partial_trace(joint, 1).mean, b.mean)

    def test_bad_index(self):
        with pytest.raises(DomainError):
            partial_trace(tmsv_state(2.0), 2)

    def test_one_mode_state_rejected(self):
        with pytest.raises(InvalidDimensionError):
            partial_trace(thermal_state(1.0), 0)
