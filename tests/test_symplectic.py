import copy
import math
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (random_cm, random_state, random_symplectic, symplectic_invariants_mp,
                      symplectic_spectrum_mp, tmsv_cm_blocks)
from bosonic_telesim import (CanonicalClass, DomainError, GaussianState,
                             InvalidDimensionError, SymplecticMatrix, ValidationError,
                             apply_affine, canonical_channel, form_from_fields,
                             is_symplectic, partial_trace, quasi_choi, simulate_channel,
                             symplectic_eigenvalues, symplectic_form, tensor_states,
                             thermal_state, tmsv_state, williamson)

OMEGA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
EPS = np.finfo(float).eps


class TestIsPureTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), -1e-9, -1.0, "1e-9", True, 1j, None])
    def test_bad_tolerance_rejected(self, tol):
        # thermal_state(1.0) is the vacuum: a NaN or negative tol made it mixed
        with pytest.raises(DomainError, match="purity tolerance"):
            thermal_state(1.0).is_pure(tol=tol)

    def test_real_tolerances_decide(self):
        vacuum = thermal_state(1.0)
        assert vacuum.is_pure() and vacuum.is_pure(tol=1e-12) and vacuum.is_pure(tol=1)
        assert thermal_state(1.05).is_pure(tol=np.float64(0.1))
        assert not thermal_state(1.05).is_pure(tol=0.01)
        assert tmsv_state(2.0).is_pure(tol=1e-12)


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

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_extended_precision_oracle(self, rng, n):
        # the eigenvalue oracle (mp.eig of Omega V): within a few eps times
        # the condition number max|V| max|V^-1|
        for _ in range(20):
            cm = random_cm(n, rng, nu_max=10.0, max_squeeze=1e3)
            cond = np.max(np.abs(cm)) * np.max(np.abs(np.linalg.inv(cm)))
            oracle = np.array([float(x) for x in symplectic_spectrum_mp(cm)])
            got = symplectic_eigenvalues(cm)
            assert np.max(np.abs(got - oracle) / oracle) <= 16.0 * EPS * cond

    def test_three_modes_rejected(self, rng):
        with pytest.raises(InvalidDimensionError, match="one or two modes"):
            symplectic_eigenvalues(random_cm(3, rng))

    def test_cm_singular_to_roundoff(self):
        # the float64 TMSV CMs themselves: 60 digits give nu = 0.86316745750310973884
        # (twice, to 22 digits) at mu = 5e7 and 0 at mu = 1e12 (not 1: the rounded
        # entries); eigh gave 0.86316745351
        assert symplectic_eigenvalues(tmsv_state(5e7).cm) == pytest.approx(
            [0.86316745750310973884] * 2, rel=1e-13)
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
            cm = random_cm(3, rng)
            dec = williamson(cm)
            assert np.max(np.abs(dec.s.s @ cm @ dec.s.s.T - dec.diagonal())) <= 1e-11
            assert is_symplectic(dec.s.s, 1e-12)
            assert list(dec.spectrum) == sorted(dec.spectrum, reverse=True)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_extended_precision_oracle(self, rng, n):
        for _ in range(10):
            cm = random_cm(n, rng, nu_max=10.0, max_squeeze=4.0)
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

    def test_more_than_two_modes_rejected(self):
        with pytest.raises(InvalidDimensionError, match="one or two modes"):
            GaussianState(np.zeros(6), np.eye(6))
        with pytest.raises(InvalidDimensionError, match="one or two modes"):
            GaussianState.vacuum(3)
        with pytest.raises(InvalidDimensionError, match="one or two modes"):
            tensor_states(tmsv_state(2.0), thermal_state(3.0))

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
    """``is_pure`` and ``symplectic_spectrum`` read the invariant kernel
    ``_floats._nus`` on the state's CM as constructed: checked and
    symmetrized once, at construction."""

    def test_spectrum_equals_the_checked_cm_route(self, rng):
        for n in (1, 2) * 50:
            state = random_state(n, rng, max_squeeze=3.0)
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
        # williamson's K - K^T overflowed here, ending in "Eigenvalues did not
        # converge"; it is halved first now, and the invariants are scaled
        big = 1.7e308
        state = GaussianState(np.zeros(4), big * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state.symplectic_spectrum() == pytest.approx([big, big], rel=1e-15)
            assert state.is_pure() is False
            assert williamson(state.cm).spectrum == pytest.approx((big, big), rel=1e-15)

    def test_kernel_beyond_float64_range_raises_overflow_error(self):
        # ||V||_2 = 2.25e308: williamson's V^{1/2} Omega V^{1/2} leaves float64
        # range; the spectrum, nu = (1.5e308 sqrt(3) / 2, 1), does not
        z = np.zeros((2, 2))
        cm = np.block([[1.5e308 * np.array([[1.0, 0.5], [0.5, 1.0]]), z], [z, np.eye(2)]])
        state = GaussianState(np.zeros(4), cm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state.symplectic_spectrum().tolist() == pytest.approx(
                [0.75e308 * 3 ** 0.5, 1.0], rel=1e-15)
            assert state.is_pure() is False
            with pytest.raises(OverflowError, match="beyond float64 range"):
                williamson(cm)

    def test_spectrum_beyond_float64_range_raises_overflow_error(self):
        # nu_1 = 2 max|V| of a CM inside the physicality slack at its scale
        a = 1.7e308
        state = GaussianState(np.zeros(4), [[a, 0, a, 0], [0, a, 0, a], [a, 0, a, 0], [0, a, 0, a]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (state.symplectic_spectrum, state.is_pure):
                with pytest.raises(OverflowError, match="beyond float64 range"):
                    call()


def _outcome(build):
    """The hex floats of a built state's mean and CM, or the type and message
    of what building it raised."""
    try:
        state = build()
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    return [x.hex() for x in state._mean], [x.hex() for x in state._cm]


def _both_routes(mean: list, x: list) -> tuple:
    """The outcomes of the public constructor and of ``GaussianState._of``,
    the entry of the states the package derives, on the same floats."""
    dim = len(mean)
    rows = [x[i:i + dim] for i in range(0, dim * dim, dim)]
    return (_outcome(lambda: GaussianState(mean, rows)),
            _outcome(lambda: GaussianState._of(mean, x)))


_BIG = 1.7e308
_COUPLED = [1.5e308, 0.75e308, 0, 0, 0.75e308, 1.5e308, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]


def _eye4(**entries) -> list:
    x = [float(i == j) for i in range(4) for j in range(4)]
    for key, value in entries.items():
        x[int(key[1:])] = value
    return x


class TestConstructionCore:
    """The derived route, ``GaussianState._of`` on row-major floats, and the
    public constructor end in one core: the same floats bit for bit, or the
    same exception and message."""

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]), st.floats(-1.0, 307.5),
           st.sampled_from([0.0, 1e-13, 1e-11]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_derived_route_equals_the_constructor(self, seed, n, log_scale, skew, signed):
        rng = np.random.default_rng(seed)
        dim, scale = 2 * n, 10.0 ** log_scale
        noise = rng.normal(size=(dim, dim))
        # Python floats: a product beyond float64 range is inf, with no warning
        x = [v * scale + skew * scale * e
             for v, e in zip(random_cm(n, rng).ravel().tolist(), noise.ravel().tolist())]
        mean = rng.normal(size=dim).tolist()
        if signed:  # signed zeros off the diagonal and in the mean
            x[1] = x[dim] = -0.0
            mean[0] = -0.0
        public, derived = _both_routes(mean, x)
        assert derived == public
        if isinstance(public[0], list):
            # the symmetrized CM is 0.5 m_ij + 0.5 m_ji, term for term
            want = [0.5 * x[i * dim + j] + 0.5 * x[j * dim + i]
                    for i in range(dim) for j in range(dim)]
            assert public[1] == [v.hex() for v in want]

    @pytest.mark.parametrize("mean, x, want", [
        *[([0.0] * 4, _eye4(**{f"e{k}": bad}), "covariance matrix is not finite")
          for k in range(16) for bad in (math.nan, math.inf, -math.inf)],
        # each off-diagonal entry 1e-11 from its mirror, at unit scale
        *[([0.0] * 4, _eye4(**{f"e{4 * i + j}": 1e-11}), "not symmetric within tolerance")
          for i in range(4) for j in range(4) if i != j],
        ([0.0] * 4, _eye4(e1=_BIG, e4=-_BIG), "not symmetric"),  # at the largest scale
        ([0.0] * 4, [0.5 * v for v in _eye4()], "unphysical"),  # below vacuum noise
        ([0.0] * 4, _eye4(e10=1 - 1e-6, e15=1 - 1e-6), "unphysical"),  # nu = 1 - 1e-6
        ([0.0] * 4, _COUPLED[:1] + [_BIG] + _COUPLED[2:4] + [_BIG] + _COUPLED[5:],
         "unphysical"),  # not PSD at the largest scale
        ([0.0] * 4, [_BIG * v for v in _eye4()], None),  # valid at the largest scale
        ([0.0] * 4, _COUPLED, None),  # valid, M + M^T beyond float64 range
        ([0.0, math.nan, 0.0, 0.0], _eye4(), "mean is not finite"),
        ([0.0, 0.0], [1.0, 1e-11, 0.0, 1.0], "not symmetric"),  # one mode
        ([math.inf, 0.0], [1.0, 0.0, 0.0, 1.0], "mean is not finite"),
    ])
    def test_same_floats_or_same_error(self, mean, x, want):
        public, derived = _both_routes(mean, x)
        assert derived == public
        if want is None:
            assert public == ([v.hex() for v in mean], [float(v).hex() for v in x])
        else:
            assert public[0] is ValidationError and want in public[1]

    def test_messages_are_the_constructors(self):
        public, derived = _both_routes([0.0] * 4, _eye4(e1=_BIG, e4=-_BIG))
        assert derived == public == (ValidationError, "covariance matrix is not symmetric "
                                                      "within tolerance 1e-12 max(1, max|M|)")


class TestCopyAndPickle:
    """A copy or an unpickled state is built again by the constructor: its
    floats come back bit for bit, signed zeros too (these have no subnormal
    entries), and its CM is checked."""

    STATES = [
        lambda: tmsv_state(1.0),  # -0.0 in the off-diagonal blocks
        lambda: GaussianState([-0.0, 1.5], [[2.0, -0.0], [-0.0, 3.0]]),
        lambda: GaussianState([0.25, -0.0, 1e-300, -2.5], tmsv_state(7.0).cm),
        lambda: apply_affine(tmsv_state(3.0), random_symplectic(2, np.random.default_rng(7))),
    ]

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("make", STATES)
    def test_round_trip_keeps_every_bit(self, copier, make):
        state = make()
        state.cm  # noqa: B018  the cached arrays are not carried over
        twin = copier(state)
        assert type(twin) is GaussianState and twin is not state
        assert [x.hex() for x in twin._mean + twin._cm] == \
            [x.hex() for x in state._mean + state._cm]
        assert np.array_equal(twin.cm, state.cm) and not twin.cm.flags.writeable

    def test_unpickled_cm_is_checked_again(self):
        class Forged:
            def __reduce__(self):
                return GaussianState, ((0.0, 0.0), [(0.5, 0.0), (0.0, 0.5)])

        with pytest.raises(ValidationError, match="unphysical"):
            pickle.loads(pickle.dumps(Forged()))


class TestInvariantKernel:
    """``_floats._nus``: the spectrum from det V and ``Delta = det A + det B +
    2 det C`` of the CM's floats, formed exactly and rounded once."""

    @staticmethod
    def _worst(states):
        return max(float(abs(got - want) / want) for s in states
                   for got, want in zip(s.symplectic_spectrum(), symplectic_invariants_mp(s.cm)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_random_states_within_1e_15_of_80_digits(self, rng, n):
        states = [random_state(n, rng, nu_max=10.0, max_squeeze=10.0) for _ in range(200)]
        assert self._worst(states) <= 1e-15

    @pytest.mark.parametrize("cls, fields", [
        ("A1", {"nbar": 0.5}), ("A2", {"nbar": 0.5}), ("C_Att", {"tau": 0.5, "nbar": 0.5}),
        ("C_Amp", {"tau": 2.0, "nbar": 0.5}), ("D", {"tau": -1.0, "nbar": 0.5}),
        ("B2", {"xi": 0.1})])
    def test_quasi_choi_states_within_1e_15_of_80_digits(self, cls, fields):
        ch = canonical_channel(form_from_fields(CanonicalClass(cls), **fields))
        states = [quasi_choi(ch, float(mu)) for mu in np.geomspace(1.5, 1e15, 40)]
        assert self._worst(states) <= 1e-15

    def test_agrees_with_the_eigenvalue_oracle(self, rng):
        for _ in range(20):
            cm = random_cm(2, rng, nu_max=10.0, max_squeeze=4.0)
            for got, want in zip(symplectic_invariants_mp(cm, 50), symplectic_spectrum_mp(cm)):
                assert abs(got - want) <= 1e-40 * want

    def test_degenerate_spectrum_stays_descending(self, rng):
        # nu_2 = sqrt(det V) / nu_1 rounds above nu_1 = nu_2 for about one
        # state in twenty of these without its cap at nu_1
        cms = []
        for _ in range(300):
            s = random_symplectic(2, rng)
            cm = s @ (rng.uniform(1.0, 5.0) * np.eye(4)) @ s.T
            cms.append(0.5 * (cm + cm.T))
        cms += [tmsv_state(float(mu)).cm for mu in np.geomspace(1.0, 1e7, 100)]
        for cm in cms:
            nu_1, nu_2 = GaussianState(np.zeros(4), cm).symplectic_spectrum()
            assert nu_1 >= nu_2

    def test_mode_of_huge_condition_keeps_its_spectrum(self):
        # eigh read nu = [1, 0] here, and is_pure True
        state = GaussianState(np.zeros(4), np.diag([1e308, 1e-300, 1.0, 1.0]))
        got = state.symplectic_spectrum().tolist()
        assert got == pytest.approx([1e4, 1.0], rel=1e-15)
        assert got == pytest.approx([float(x) for x in symplectic_invariants_mp(state.cm)],
                                    rel=1e-15)
        assert state.is_pure() is False

    def test_is_pure_runs_without_numpy(self):
        code = ("import sys; sys.modules['numpy'] = None; import bosonic_telesim as bt\n"
                "ch = bt.canonical_channel(bt.form_from_fields(bt.CanonicalClass.C_Att, "
                "tau=0.5, nbar=0.5))\n"
                "big = [[1e308, 0, 0, 0], [0, 1e-300, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]\n"
                "print(bt.tmsv_state(2.0).is_pure(), bt.quasi_choi(ch, 1e9).is_pure(), "
                "bt.GaussianState([0] * 4, big).is_pure())")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False", "False"]


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
